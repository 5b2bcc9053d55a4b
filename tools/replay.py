"""Replay the benchmark's workload commands and print a digest of each.

    python3 tools/replay.py SRC

SRC is a ``src`` directory holding the ``jetstrata`` package.  The inputs of
the three workloads of ``bench/gen.py`` are built at seeds 1 and 7 and written
to a temporary directory; each command then runs as the benchmark runs it,
in a fresh ``python -m jetstrata.cli`` process with ``PYTHONPATH=SRC``, so
the modules a command imports, ``cli.entry`` and the interpreter's exit are
replayed too; the child writes UTF-8 whatever the locale.  One line per
command: seed, workload, index, exit status, and the sha256 of its stdout
and of its stderr.  Two sources give the same reports when their outputs are the same
bytes, so

    python3 tools/replay.py OLD/src > old.txt
    python3 tools/replay.py src > new.txt
    diff old.txt new.txt

checks a change for byte identity.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "jetstrata" / "cli.py").is_file():
        print("usage: python3 tools/replay.py SRC", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    env = {**os.environ, "PYTHONPATH": str(Path(argv[0]).resolve()), "PYTHONIOENCODING": "utf-8"}
    for seed in SEEDS:
        for name, build in sorted(gen.WORKLOADS.items()):
            workload = build(seed)
            with tempfile.TemporaryDirectory(prefix=f"replay-{name}-") as tmp:
                inputs = Path(tmp)
                for file_name, document in workload.files.items():
                    (inputs / file_name).write_text(json.dumps(document), encoding="utf-8")
                for index, command in enumerate(workload.commands):
                    args = [str(inputs / a[1:]) if a.startswith("@") else a for a in command.argv]
                    done = subprocess.run([sys.executable, "-m", "jetstrata.cli", *args], env=env, capture_output=True)
                    print(seed, name, index, done.returncode, digest(done.stdout), digest(done.stderr))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
