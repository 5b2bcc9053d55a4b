"""Running jetstrata processes from the source tree of the checkout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CODE = "import jetstrata.cli"
# A single command may not hold the run past the 180 s limit.
COMMAND_TIMEOUT_S = 150


@dataclass
class Outcome:
    seconds: float
    status: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list, env: dict) -> Outcome:
    """Run one process to completion; max RSS comes from its own rusage."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Outcome(elapsed, proc.returncode, out, err.read(), usage.ru_maxrss)


def command_args(command: gen.Command, inputs: Path) -> list:
    """The command's arguments with each ``@name`` replaced by the path of
    input document ``name`` under ``inputs``."""
    return [str(inputs / a[1:]) if a.startswith("@") else a for a in command.argv]


def cli_argv(command: gen.Command, inputs: Path) -> list:
    return [sys.executable, "-m", "jetstrata.cli", *command_args(command, inputs)]


def write_inputs(workload: gen.Workload, directory: Path) -> None:
    for name, document in workload.files.items():
        (directory / name).write_text(json.dumps(document), encoding="utf-8")


def setup_times(env: dict, code: str, samples: int, warm_up: bool = True) -> list:
    """Wall seconds of processes that only run ``code``, after one discarded
    warm-up run unless ``warm_up`` is false."""
    argv = [sys.executable, "-c", code]
    times = []
    for _ in range(samples + warm_up):
        outcome = run_process(argv, env)
        if outcome.status != 0:
            raise RuntimeError(f"{code!r} failed: {outcome.stderr.decode(errors='replace').strip()}")
        times.append(outcome.seconds)
    return times[1:] if warm_up else times
