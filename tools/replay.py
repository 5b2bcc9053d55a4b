"""Replay the benchmark's workload commands and print a digest of each.

    python3 tools/replay.py SRC

SRC is a ``src`` directory holding the ``jetstrata`` package.  The inputs of
the three workloads of ``bench/gen.py`` are built at seeds 1 and 7 and written
to a temporary directory; each command then runs in this process through
``jetstrata.cli.main`` from SRC.  One line per command: seed, workload,
index, exit status, and the sha256 of its stdout and of its stderr.  Two
sources give the same reports when their outputs are the same text, so

    python3 tools/replay.py OLD/src > old.txt
    python3 tools/replay.py src > new.txt
    diff old.txt new.txt

checks a change for byte identity.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "jetstrata" / "cli.py").is_file():
        print("usage: python3 tools/replay.py SRC", file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(Path(__file__).resolve().parent.parent / "bench")]
    import gen
    from jetstrata import cli

    for seed in SEEDS:
        for name, build in sorted(gen.WORKLOADS.items()):
            workload = build(seed)
            with tempfile.TemporaryDirectory(prefix=f"replay-{name}-") as tmp:
                inputs = Path(tmp)
                for file_name, document in workload.files.items():
                    (inputs / file_name).write_text(json.dumps(document), encoding="utf-8")
                for index, command in enumerate(workload.commands):
                    args = [str(inputs / a[1:]) if a.startswith("@") else a for a in command.argv]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        status = cli.main(args)
                    print(seed, name, index, status, digest(out.getvalue()), digest(err.getvalue()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
