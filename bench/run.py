"""Benchmark for the jetstrata command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is taken from ``src``
(the package need not be installed).

With ``--trace 0`` the workload runs as a closed loop with one client: its
command sequence, one ``jetstrata`` process per command, each started after
the previous one exits, repeated while half of the next sequence is expected
to fit within ``--seconds``.  Every report is checked against expectations computed
by the benchmark's own code (``gen``, ``arith``).  The end-to-end metrics are
printed one per line, then information lines and a metadata line, and last a
single JSON result line.

With ``--trace 1`` the per-layer metrics come from an in-process traced replay
instead (see ``tracing``).

Inputs are written under ``.bench_out`` in the checkout and removed at exit;
the traced run also leaves its spans file there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import gen
from checks import check_output, digest_status
from proc import OUT, SETUP_CODE, SRC, cli_argv, program_env, run_process, setup_times, write_inputs

SETUP_FIRST_SAMPLES = 5
# Further set-up samples are taken between commands at this spacing, so that
# they spread over the run like the commands they are compared with.
SETUP_INTERVAL_S = 2.0


# -- measurement ------------------------------------------------------------


def closed_loop(workload: gen.Workload, inputs: Path, seconds: float, env: dict) -> dict:
    """Repeat the command sequence while at least half of the next one is
    expected to fit inside ``seconds``, so that runs end near ``seconds`` on
    average; always at least once.  A sequence's wall time is the sum of its
    commands' wall times, so set-up samples taken in between do not count in
    it."""
    setup = setup_times(env, SETUP_CODE, SETUP_FIRST_SAMPLES)
    last_setup = time.perf_counter()
    cmd_times, seq_times, failures, first_stdouts = [], [], [], None
    peak_kb = 0
    start = time.perf_counter()
    while True:
        outcomes = []
        for command in workload.commands:
            outcomes.append(run_process(cli_argv(command, inputs), env))
            if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                setup += setup_times(env, SETUP_CODE, 1, warm_up=False)
                last_setup = time.perf_counter()
        seq_times.append(sum(o.seconds for o in outcomes))
        for command, outcome in zip(workload.commands, outcomes):
            cmd_times.append(outcome.seconds)
            peak_kb = max(peak_kb, outcome.maxrss_kb)
            problem = check_output(command, outcome.status, outcome.stdout)
            if problem:
                stderr = outcome.stderr.decode(errors="replace").strip()[-300:]
                failures.append(f"{' '.join(command.argv)}: {problem} {stderr}")
        if first_stdouts is None:
            first_stdouts = [o.stdout for o in outcomes]
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(seq_times) / 2 > seconds:
            break
    return {
        "setup": setup,
        "cmd_times": cmd_times,
        "seq_times": seq_times,
        "peak_mb": peak_kb / 1024,
        "failures": failures,
        "first_stdouts": first_stdouts,
    }


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


def untraced(args, workload: gen.Workload, inputs: Path) -> tuple[dict, dict]:
    loop = closed_loop(workload, inputs, args.seconds, program_env())
    setup = loop["setup"]
    for line in loop["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)
    cmd_times = loop["cmd_times"]
    metrics = {
        "wall_s": (statistics.median(loop["seq_times"]), "s", len(loop["seq_times"])),
        "cmd_p50_s": (statistics.median(cmd_times), "s", len(cmd_times)),
        "peak_rss_mb": (loop["peak_mb"], "MB", len(cmd_times)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    info = {
        "cmd_p90_s": (p90(cmd_times), "s", len(cmd_times)),
        "failed_frac": (len(loop["failures"]) / len(cmd_times), "1", len(cmd_times)),
        "setup_share_of_cmd_p50": (metrics["setup_s"][0] / metrics["cmd_p50_s"][0], "1", len(cmd_times)),
        "digest": digest_status(workload.name, args.seed, loop["first_stdouts"]),
    }
    counts = {"attempted": len(cmd_times), "failed": len(loop["failures"])}
    return metrics, {**info, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jetstrata" / "cli.py").is_file():
        print(f"no jetstrata sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    workload = gen.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        inputs = Path(tmp)
        write_inputs(workload, inputs)
        if args.trace:
            import tracing

            metrics, info = tracing.traced(args, workload, inputs)
        else:
            metrics, info = untraced(args, workload, inputs)

    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (samples {samples})")
    for name, value in info.items():
        if isinstance(value, tuple):
            print(f"info {name} {value[0]:.6g} {value[1]} (samples {value[2]})")
        elif name not in ("attempted", "failed"):
            print(f"info {name}: {value}")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": gen.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "samples": {name: samples for name, (_, _, samples) in metrics.items()},
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
