"""Seeded command lists for the three benchmark workloads.

Each workload is a list of ``Command``s: a CLI command name and the config
document it reads.  The list depends only on the workload name and the seed
(``random.Random`` seeded with a string, which is stable across Python
versions), never on the program under test.

Network sizes, settings and sample counts sit on fixed grids; the seed draws
everything else (gains, powers, budgets, SymIII fractions, sweep ranges,
Monte Carlo seeds, command order).  So the work of a pass, and with it its wall
time and latency percentiles, moves little from seed to seed, while every
individual config still changes.
"""

from __future__ import annotations

import dataclasses
import random

BLOCK = 1 << 16  # jamnet's Monte Carlo block size (samples)

SYMMETRIC = ("SymI", "SymII", "SymIII")
ASYMMETRIC = ("AsymI", "AsymII")
SETTINGS = SYMMETRIC + ASYMMETRIC

# Parameter ranges of the test suite's random scenarios (tests/conftest.py).
GAIN_RANGE = (0.2, 3.0)
POWER_RANGE = (0.1, 5.0)
P_T_RANGE = (0.5, 5.0)
P_A_RANGE = (0.05, 2.0)

# mc-scaling: M+K log-uniform between the end points.  The attack
# budget stays moderate so the Theorem-5 solve that precedes an AsymII
# simulation finds its equilibrium on almost every instance.
MC_COMMANDS = 25
MC_SENSORS = (5, 300)
MC_BLOCKS = (1.0, 2.5)
MC_P_A_RANGE = (0.05, 1.0)

# solve-certify: fixed counts per (command, setting), shuffled.  The counts
# put each reported percentile inside a dense group of similar commands, so
# it moves little when a few AsymII instances exit 2 early:
# - the median among the 80 cheap commands (closed forms, Theorem-4 solves,
#   sweeps outside AsymII: 1-4 ms, mostly cli overhead);
# - the p90 among the 16 AsymII sweeps (five Theorem-5 solves each, about
#   130 ms), below only the SymII verifies and the dearest asymmetric ones.
SOLVE_MIX = (
    [("closed-form", s, 10) for s in SYMMETRIC]
    + [("solve-asym", "AsymI", 14), ("solve-asym", "AsymII", 10)]
    + [("verify", "SymI", 4), ("verify", "SymII", 4), ("verify", "SymIII", 4),
       ("verify", "AsymI", 6), ("verify", "AsymII", 6)]
    + [("sweep", s, 9) for s in SYMMETRIC + ("AsymI",)] + [("sweep", "AsymII", 16)]
)
SOLVE_MAX_M, SOLVE_MAX_K = 32, 16
SWEEP_STEPS = 5

# bounds: maxcorr at the CLI's fixed grid of 257 with 1, 2 or 3 rho per
# command (equal thirds, so the median sits among the 2-rho commands and the
# p90 among the 3-rho ones), plus ceo-curve.
MAXCORR_COMMANDS, MAXCORR_STEPS, RHO_MAX = 24, (1, 2, 3), 0.95
CEO_COMMANDS, CEO_STEPS = 4, 1001

WORKLOADS = ("mc-scaling", "solve-certify", "bounds")


@dataclasses.dataclass(frozen=True)
class Command:
    command: str
    config: dict

    @property
    def setting(self) -> str:
        return self.config["setting"]

    @property
    def sizes(self) -> tuple[int, int]:
        """(M, K) from the count shorthand or the explicit sensor lists."""
        def count(node) -> int:
            return node["count"] if isinstance(node, dict) else len(node)
        return count(self.config["transmitters"]), count(self.config["adversaries"])

    @property
    def samples(self) -> int:
        return self.config.get("monte_carlo", {}).get("samples", 0)


def _uniform(rng: random.Random, bounds: tuple[float, float]) -> float:
    return rng.uniform(*bounds)


def _grid(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of ``count`` equal slices of [lo, hi], as integers."""
    width = (hi - lo + 1) / count
    return [lo + int((j + 0.5) * width) for j in range(count)]


def scenario(rng: random.Random, setting: str, M: int, K: int,
             p_a_range: tuple[float, float] = P_A_RANGE) -> dict:
    """A valid config document (no command-specific blocks) for ``setting``."""
    if setting in SYMMETRIC:
        sensor = {"alpha": _uniform(rng, GAIN_RANGE), "beta": _uniform(rng, GAIN_RANGE),
                  "power": _uniform(rng, POWER_RANGE)}
        cfg = {"setting": setting,
               "transmitters": {"count": M, **sensor},
               "adversaries": {"count": K, **sensor}}
        if setting == "SymIII":
            cfg["epsilon"] = rng.randint(1, M) / M
            cfg["eta"] = rng.randint(0, K) / K
        return cfg

    def sensors(n: int) -> list[dict]:
        return [{"alpha": _uniform(rng, GAIN_RANGE), "beta": _uniform(rng, GAIN_RANGE),
                 "power": 0.0} for _ in range(n)]

    return {"setting": setting, "transmitters": sensors(M), "adversaries": sensors(K),
            "sum_power_transmit": _uniform(rng, P_T_RANGE),
            "sum_power_attack": _uniform(rng, p_a_range)}


def mc_scaling(rng: random.Random) -> list[Command]:
    """``simulate`` over all five settings, M+K log-uniform in MC_SENSORS.

    Sizes, settings and sample counts sit on a fixed design: M+K runs over a
    log-spaced grid from the smallest to the largest size (so every list
    reaches the same peak array size), the settings take turns, the
    adversary share of M+K cycles through 10-40%, and sample counts cycle
    through five levels in MC_BLOCKS blocks, every third rounded to whole
    blocks and the rest not.  The seed draws the gains, powers, budgets,
    SymIII fractions and Monte Carlo seeds.
    """
    lo, hi = MC_SENSORS
    b_lo, b_hi = MC_BLOCKS
    commands = []
    for i in range(MC_COMMANDS):
        n = round(lo * (hi / lo) ** (i / (MC_COMMANDS - 1)))
        K = max(1, round((0.1 + 0.1 * ((3 * i) % 4)) * n))
        cfg = scenario(rng, SETTINGS[i % len(SETTINGS)], n - K, K, MC_P_A_RANGE)
        blocks = b_lo + (b_hi - b_lo) * ((3 * i) % 5 + 0.5) / 5
        if i % 3 == 0:
            blocks = round(blocks)
        cfg["monte_carlo"] = {"samples": round(blocks * BLOCK), "seed": rng.getrandbits(63)}
        commands.append(Command("simulate", cfg))
    rng.shuffle(commands)
    return commands


def _sweep_block(rng: random.Random, setting: str) -> dict:
    if setting in ASYMMETRIC:
        param, bounds = rng.choice((("P_A", P_A_RANGE), ("P_T", P_T_RANGE)))
    else:
        param, bounds = rng.choice((("P", POWER_RANGE), ("alpha", GAIN_RANGE),
                                    ("beta", GAIN_RANGE)))
    a, b = sorted((_uniform(rng, bounds), _uniform(rng, bounds)))
    return {"param": param, "from": a, "to": b, "steps": SWEEP_STEPS}


def solve_certify(rng: random.Random) -> list[Command]:
    """closed-form / solve-asym / verify / sweep in fixed proportions.

    Within each (command, setting) group the j-th command takes M and K from
    the middle of the j-th of equal slices of their ranges (M <= 32,
    K <= 16; K < M in the symmetric settings), the same for every seed.
    """
    commands = []
    for command, setting, count in SOLVE_MIX:
        symmetric = setting in SYMMETRIC
        Ms = _grid(count, 2 if symmetric else 1, SOLVE_MAX_M)
        Ks = _grid(count, 1, SOLVE_MAX_K)
        for M, K in zip(Ms, Ks):
            if symmetric:
                K = min(K, M - 1)
            cfg = scenario(rng, setting, M, K)
            if command == "sweep":
                cfg["sweep"] = _sweep_block(rng, setting)
            commands.append(Command(command, cfg))
    rng.shuffle(commands)
    return commands


def bounds(rng: random.Random) -> list[Command]:
    """``maxcorr`` over seeded rho sweeps and ``ceo-curve`` over seeded betas,
    shuffled.  The only workload where ``bounds`` does the work; no Monte
    Carlo and no oracle, so changes there should show no change here."""
    commands = []
    for i in range(MAXCORR_COMMANDS):
        steps = MAXCORR_STEPS[i % len(MAXCORR_STEPS)]
        cfg = scenario(rng, "SymI", 1, 0)
        cfg["sweep"] = {"param": "rho", "from": rng.uniform(-RHO_MAX, RHO_MAX),
                        "to": rng.uniform(-RHO_MAX, RHO_MAX), "steps": steps}
        commands.append(Command("maxcorr", cfg))
    for _ in range(CEO_COMMANDS):
        cfg = scenario(rng, "AsymI", rng.randint(1, SOLVE_MAX_M), 1)
        cfg["sweep"] = {"param": "rate", "from": 0.0, "to": rng.uniform(2.0, 12.0),
                        "steps": CEO_STEPS}
        commands.append(Command("ceo-curve", cfg))
    rng.shuffle(commands)
    return commands


_GENERATORS = {"mc-scaling": mc_scaling, "solve-certify": solve_certify, "bounds": bounds}

# One fixed, cheap command per workload: run once before timing (and timed
# by itself as part of setup_s).  Fixed, so setup time does not vary by seed.
WARMUP = {
    # An AsymII simulation: the Theorem-5 solve that fixes the profile, then
    # one Monte Carlo block.
    "mc-scaling": Command("simulate", {
        "setting": "AsymII",
        "transmitters": [{"alpha": 1.0, "beta": 1.0, "power": 0.0}] * 4,
        "adversaries": [{"alpha": 0.8, "beta": 1.0, "power": 0.0}] * 2,
        "sum_power_transmit": 3.0, "sum_power_attack": 0.8,
        "monte_carlo": {"samples": BLOCK, "seed": 1}}),
    "bounds": Command("maxcorr", {
        "setting": "SymI",
        "transmitters": {"count": 1, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "adversaries": {"count": 0, "alpha": 1.0, "beta": 1.0, "power": 1.0},
        "sweep": {"param": "rho", "from": 0.5, "to": 0.5, "steps": 1}}),
    "solve-certify": Command("solve-asym", {
        "setting": "AsymII",
        "transmitters": [{"alpha": 1.0, "beta": 1.0, "power": 0.0}] * 4,
        "adversaries": [{"alpha": 0.8, "beta": 1.0, "power": 0.0}] * 2,
        "sum_power_transmit": 3.0, "sum_power_attack": 0.8}),
}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of ``workload`` for ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
