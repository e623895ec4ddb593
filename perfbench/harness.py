"""Replay a command list through ``jamnet.cli.main`` and check every output.

One client, one process, one command at a time (a closed loop): the next
command starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import time
from pathlib import Path

import checks
from workloads import Command


@dataclasses.dataclass
class Pass:
    wall_s: float
    latencies_s: list[float]
    results: list  # main()'s return value, or the exception it raised


@dataclasses.dataclass
class Outputs:
    outcomes: list[tuple[str, str]]  # (checks.OK | NONCONVERGED | FAILED, reason)
    digests: list[str]
    output_bytes: int


class Runner:
    """Writes the configs of ``commands`` under ``workdir`` and replays them."""

    def __init__(self, cli, commands: list[Command], workdir: Path):
        self.cli = cli
        self.commands = commands
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs = []
        self.stems = []
        for i, cmd in enumerate(commands):
            path = workdir / f"c{i:03d}.config.json"
            path.write_text(json.dumps(cmd.config, indent=1))
            self.configs.append(str(path))
            self.stems.append(str(workdir / f"c{i:03d}"))

    def call(self, i: int, stem: str):
        """One command through ``cli.main``; its stdout and stderr are dropped."""
        argv = [self.commands[i].command, "--config", self.configs[i], "--out", stem]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                # Looked up on every call, so a tracer's wrapper is used.
                return self.cli.main(argv)
        except Exception as exc:  # counted as failed; the checks report it
            return exc

    def run_pass(self, tracer=None) -> Pass:
        latencies = []
        results = []
        clock = time.perf_counter
        start = clock()
        for i, stem in enumerate(self.stems):
            if tracer is not None:
                tracer.command = i
            t0 = clock()
            results.append(self.call(i, stem))
            latencies.append(clock() - t0)
        return Pass(clock() - start, latencies, results)

    def check_one(self, i: int, rc, stem: str) -> tuple[tuple[str, str], str, int]:
        """Check command ``i``'s files at ``stem``: (outcome, digest, bytes)."""
        texts = []
        digest = hashlib.sha256()
        size = 0
        for suffix in (".csv", ".json"):
            path = Path(stem + suffix)
            data = path.read_bytes() if path.exists() else None
            if data is not None:
                size += len(data)
                digest.update(suffix.encode() + data)
            texts.append(None if data is None else data.decode("utf-8", "replace"))
        return checks.check_output(self.commands[i], rc, *texts), digest.hexdigest(), size

    def collect(self, results: list) -> Outputs:
        """Check every command's files after a pass."""
        outputs = Outputs([], [], 0)
        for i, rc in enumerate(results):
            outcome, digest, size = self.check_one(i, rc, self.stems[i])
            outputs.outcomes.append(outcome)
            outputs.digests.append(digest)
            outputs.output_bytes += size
        return outputs

    def clear_outputs(self) -> None:
        """Delete the previous pass's files, so each pass is checked on its own."""
        for stem in self.stems:
            for suffix in (".csv", ".json"):
                Path(stem + suffix).unlink(missing_ok=True)


class Tally:
    """attempted / failed / nonconverged counts, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.nonconverged = 0
        self.reasons: list[str] = []

    def add(self, label: str, outcome: tuple[str, str]) -> None:
        status, reason = outcome
        self.attempted += 1
        if status == checks.NONCONVERGED:
            self.nonconverged += 1
        elif status == checks.FAILED:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {reason}")

    def add_outputs(self, label: str, outputs: Outputs, reference: list[str] | None) -> None:
        """Count one pass; a command whose files differ from the reference
        pass's fails, even if its own checks pass."""
        for i, outcome in enumerate(outputs.outcomes):
            differs = reference is not None and outputs.digests[i] != reference[i]
            if differs and outcome[0] != checks.FAILED:
                outcome = (checks.FAILED, "output differs from the first pass")
            self.add(f"{label} command {i}", outcome)
