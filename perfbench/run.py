"""The jamnet benchmark.

    python3 perfbench/run.py --workload <mc-scaling|solve-certify|bounds> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree: jamnet is imported from ./src, and all
outputs go under ./.perfbench_work.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced replay (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import harness
import layers
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120
MIN_LATENCY_SAMPLES = 100  # the p90 needs ten samples beyond it
MAX_MEASURE_S = 120.0
RATE_DRAWS = 1 << 20
BY_PARENT = ("asym.direct_mmse_cost", "asym.adversary_linear_response")  # printed per parent

clock = time.perf_counter


class BenchmarkError(Exception):
    """The benchmark cannot run here (no jamnet source, a probe failed)."""


def import_jamnet():
    sys.path.insert(0, str(SRC))
    import jamnet
    import jamnet.cli

    if not Path(jamnet.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"jamnet was imported from {jamnet.__file__}, not {SRC}")
    return jamnet


def probe_setup(command: str, config: Path, stem: Path) -> float:
    """One setup_s sample: a fresh interpreter imports jamnet and runs the
    warm-up command."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), command, str(config), str(stem)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["rc"] != 0 or not Path(doc["module"]).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"setup probe: {doc}")
    return doc["seconds"]


def reference_rates() -> dict:
    """Same-run Philox standard_normal and scipy ndtr rates (median of five)."""
    import numpy as np
    from scipy.special import ndtr

    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    x = rng.standard_normal(RATE_DRAWS)

    def rate(fn) -> float:
        times = []
        for _ in range(5):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return RATE_DRAWS / statistics.median(times)

    return {"philox_normals_per_s": rate(lambda: rng.standard_normal(RATE_DRAWS)),
            "ndtr_evals_per_s": rate(lambda: ndtr(x))}


def metadata(thread_env: dict, rates: dict) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env_at_start": thread_env,
        **rates,
    }


def should_continue(start: float, seconds: float, pass_walls: list[float],
                    samples: int) -> bool:
    """Start another pass?  Yes while one more median pass still ends within
    --seconds, and until the p90 is measurable; never past MAX_MEASURE_S."""
    if not pass_walls:
        return True
    elapsed = clock() - start
    if elapsed >= MAX_MEASURE_S:
        return False
    return elapsed + statistics.median(pass_walls) <= seconds or samples < MIN_LATENCY_SAMPLES


def rerun_check(runner: harness.Runner, reference: list[str], tally: harness.Tally,
                workload: str, seed: int, workdir: Path) -> None:
    """Re-run one sampled command to a new stem: its files must match."""
    i = random.Random(f"rerun:{workload}:{seed}").randrange(len(runner.commands))
    stem = str(workdir / "rerun")
    rc = runner.call(i, stem)
    outcome, digest, _ = runner.check_one(i, rc, stem)
    if digest != reference[i] and outcome[0] != checks.FAILED:
        outcome = (checks.FAILED, "re-run output differs")
    tally.add(f"re-run of command {i}", outcome)


def mc_samples(commands, outcomes) -> int:
    """Monte Carlo samples of the simulate commands that completed."""
    return sum(c.samples for c, (status, _) in zip(commands, outcomes) if status == checks.OK)


def mc_rates(commands, passes) -> list[str]:
    """Samples per second of the smallest, middle and largest simulate command."""
    simulate = sorted((sum(c.sizes), i) for i, c in enumerate(commands) if c.samples)
    lines = []
    for _, i in (simulate[0], simulate[len(simulate) // 2], simulate[-1]):
        cmd = commands[i]
        latency = statistics.median(p.latencies_s[i] for p in passes)
        lines.append(f"  simulate M+K={sum(cmd.sizes)} {cmd.setting} samples={cmd.samples}: "
                     f"{cmd.samples / latency / 1e6:.3g} Msamples/s per command")
    return lines


def run_untraced(args, runner, tally, workdir) -> tuple[dict, list[str]]:
    warmup = workloads.WARMUP[args.workload]
    (workdir / "setup").mkdir(parents=True, exist_ok=True)
    config = workdir / "setup" / "warmup.config.json"
    config.write_text(json.dumps(warmup.config))
    setup = []

    def probe() -> None:
        setup.append(probe_setup(warmup.command, config, workdir / "setup" / f"probe{len(setup)}"))

    n = len(runner.commands)
    passes, reference = [], None
    start = clock()
    while should_continue(start, args.seconds, [p.wall_s for p in passes], len(passes) * n):
        runner.clear_outputs()
        measured = runner.run_pass()
        outputs = runner.collect(measured.results)
        tally.add_outputs(f"pass {len(passes)}", outputs, reference)
        reference = reference or outputs.digests
        if not passes:
            first_outputs = outputs
        passes.append(measured)
        # Set-up probes go between passes, spread over the window, so that a
        # burst of load on the machine moves one of them rather than all.
        while len(setup) < SETUP_PROBES * min(1.0, (clock() - start) / args.seconds):
            probe()
    while len(setup) < SETUP_PROBES:
        probe()
    rerun_check(runner, reference, tally, args.workload, args.seed, workdir)

    latencies = [x for p in passes for x in p.latencies_s]
    # The mean, not the median: the machine's speed drifts over tens of
    # seconds, and the mean follows the drift smoothly where the median of a
    # few passes jumps between levels.
    wall_s = statistics.fmean(p.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "commands_per_s": (n / wall_s, "1/s"),
        "command_p50_ms": (1e3 * statistics.median(latencies), "ms"),
    }
    if len(latencies) >= MIN_LATENCY_SAMPLES:
        metrics["command_p90_ms"] = (1e3 * statistics.quantiles(latencies, n=10)[8], "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    notes = [f"{len(passes)} passes x {n} commands, {len(latencies)} latency samples; "
             f"pass walls {[round(p.wall_s, 3) for p in passes]}, "
             f"setup_s samples {[round(s, 3) for s in setup]}"]
    samples = mc_samples(runner.commands, first_outputs.outcomes)
    if samples:
        notes.append(f"  mc_samples_per_s         {samples / wall_s:.6g} 1/s "
                     f"({samples} samples per pass)")
        notes += mc_rates(runner.commands, passes)
    return metrics, notes


def run_traced(args, runner, jamnet, tally, rates) -> tuple[dict, list[str]]:
    walls = {False: [], True: []}
    per_pass = []
    tracers = []
    reference = None
    samples = 0
    start = clock()
    while should_continue(start, args.seconds,
                          [a + b for a, b in zip(walls[False], walls[True])],
                          MIN_LATENCY_SAMPLES):
        for traced in (False, True):
            runner.clear_outputs()
            if traced:
                with Tracer(jamnet, layers.COUNTERS) as tracer:
                    measured = runner.run_pass(tracer)
            else:
                measured = runner.run_pass()
            outputs = runner.collect(measured.results)
            tally.add_outputs(f"{'traced' if traced else 'untraced'} pass", outputs, reference)
            if reference is None:
                reference = outputs.digests
                samples = mc_samples(runner.commands, outputs.outcomes)
            walls[traced].append(measured.wall_s)
            if traced:
                tracers.append(tracer)
                per_pass.append(layers.pass_metrics(layers.PassTrace(tracer),
                                                    rates["philox_normals_per_s"],
                                                    outputs.output_bytes))

    untraced_s = statistics.fmean(walls[False])
    traced_s = statistics.fmean(walls[True])
    metrics = {name: (statistics.median(p[name] for p in per_pass), layers.METRICS[name])
               for name in per_pass[0]}
    metrics["simulate.mc_samples_per_s"] = (samples / untraced_s, "1/s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics = {name: metrics[name] for name in layers.METRICS}

    notes = [f"{len(per_pass)} traced and {len(walls[False])} untraced passes; "
             f"mean pass wall {traced_s:.4f} s traced vs {untraced_s:.4f} s untraced"]
    last = layers.PassTrace(tracers[-1])
    for (name, parent), calls in sorted(last.by_parent.items(), key=lambda kv: str(kv[0])):
        if name not in BY_PARENT:
            continue
        notes.append(f"  {name} under {parent}: {calls} calls, "
                     f"{1e3 * last.by_parent_s[name, parent]:.4g} ms per pass")
    write_spans(tracers, WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return metrics, notes


def write_spans(tracers, path: Path) -> None:
    with path.open("w") as fh:
        for k, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({
                    "pass": k, "id": span.id, "name": span.name, "parent": span.parent,
                    "command": span.command, "start": span.start, "end": span.end,
                    "self_s": span.self_s, "ok": span.ok, "work": span.work,
                    "aggregated": span.aggregated}) + "\n")


def run(args, workdir: Path, thread_env: dict) -> int:
    commands = workloads.generate(args.workload, args.seed)
    jamnet = import_jamnet()
    runner = harness.Runner(jamnet.cli, commands, workdir / "commands")
    tally = harness.Tally()

    warmup = harness.Runner(jamnet.cli, [workloads.WARMUP[args.workload]], workdir / "warmup")
    tally.add("warm-up", warmup.collect([warmup.call(0, warmup.stems[0])]).outcomes[0])
    rates = reference_rates()

    if args.trace:
        metrics, notes = run_traced(args, runner, jamnet, tally, rates)
    else:
        metrics, notes = run_untraced(args, runner, tally, workdir)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {notes[0]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    for line in notes[1:]:
        print(line)
    print(f"  failed_ratio             {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    print(f"  nonconverged_ratio       {tally.nonconverged}/{tally.attempted} = "
          f"{tally.nonconverged / tally.attempted:.4g} (documented exit 2, checked)")
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print("metadata: " + json.dumps(metadata(thread_env, rates), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jamnet" / "__init__.py").is_file():
        print(f"perfbench: no jamnet source under {SRC}", file=sys.stderr)
        return 2
    # One client thread: no BLAS worker threads, no Monte Carlo thread pool.
    thread_env = {v: os.environ.get(v) for v in BLAS_THREAD_VARS + ("JAMNET_THREADS",)}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("JAMNET_THREADS", None)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir, thread_env)
    except (BenchmarkError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
