"""Replay the benchmark's workload commands and print a digest of each.

    python3 tools/replay.py SRC

SRC is a ``src`` directory holding the ``jetstrata`` package.  The inputs of
the three workloads of ``bench/gen.py`` are built at seeds 1 and 7 and written
to a temporary directory; each command then runs as the benchmark runs it,
in a fresh ``python -m jetstrata.cli`` process with ``PYTHONPATH=SRC``, so
the modules a command imports, ``cli.entry`` and the interpreter's exit are
replayed too; the child writes UTF-8 whatever the locale.  One line per
command: seed, workload, index, exit status, and the sha256 of its stdout
and of its stderr.  A last line replays one ``filtration run`` of depth 3 on
a 31,977-label Künneth product, the largest the tests build, from the static
document ``DEPTH3_RUN`` below; its seed reads ``static``.  Two sources give
the same reports when their outputs are the same bytes, so

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

# Stages of dimension 32/72/128/200, each the truncated polynomial ring on
# one generator x of degree 4/4/8/20, with a nonzero stage obstruction under
# the schedule (the stages of tests/test_filtration.py::depth3_bundles).
DEPTH3_RUN = """\
{"d": 3, "schedule": [8, 19, 58, 318, 384], "stages": [
 {"ring": {"mode": "integer_mod_torsion", "topDim": 32, "fundamental": "x^8", "basis": [
   {"label":"1","degree":0}, {"label":"x","degree":4}, {"label":"x^2","degree":8}, {"label":"x^3","degree":12},
   {"label":"x^4","degree":16}, {"label":"x^5","degree":20}, {"label":"x^6","degree":24}, {"label":"x^7","degree":28},
   {"label":"x^8","degree":32}],
  "products": [
   {"a":"x","b":"x","result":[{"label":"x^2","coeff":1}]}, {"a":"x","b":"x^2","result":[{"label":"x^3","coeff":1}]},
   {"a":"x","b":"x^3","result":[{"label":"x^4","coeff":1}]}, {"a":"x","b":"x^4","result":[{"label":"x^5","coeff":1}]},
   {"a":"x","b":"x^5","result":[{"label":"x^6","coeff":1}]}, {"a":"x","b":"x^6","result":[{"label":"x^7","coeff":1}]},
   {"a":"x","b":"x^7","result":[{"label":"x^8","coeff":1}]}, {"a":"x^2","b":"x^2","result":[{"label":"x^4","coeff":1}]},
   {"a":"x^2","b":"x^3","result":[{"label":"x^5","coeff":1}]},
   {"a":"x^2","b":"x^4","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^2","b":"x^5","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^2","b":"x^6","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^3","b":"x^3","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^3","b":"x^4","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^3","b":"x^5","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^4","b":"x^4","result":[{"label":"x^8","coeff":1}]}]},
  "bundle": {"totalPositive": [{"label":"1","coeff":1}, {"label":"x","coeff":1}, {"label":"x^2","coeff":1}],
   "totalNegativePulled": [{"label":"1","coeff":1}, {"label":"x","coeff":-1}]}},
 {"ring": {"mode": "integer_mod_torsion", "topDim": 72, "fundamental": "x^18", "basis": [
   {"label":"1","degree":0}, {"label":"x","degree":4}, {"label":"x^2","degree":8}, {"label":"x^3","degree":12},
   {"label":"x^4","degree":16}, {"label":"x^5","degree":20}, {"label":"x^6","degree":24}, {"label":"x^7","degree":28},
   {"label":"x^8","degree":32}, {"label":"x^9","degree":36}, {"label":"x^10","degree":40}, {"label":"x^11","degree":44},
   {"label":"x^12","degree":48}, {"label":"x^13","degree":52}, {"label":"x^14","degree":56},
   {"label":"x^15","degree":60}, {"label":"x^16","degree":64}, {"label":"x^17","degree":68},
   {"label":"x^18","degree":72}],
  "products": [
   {"a":"x","b":"x","result":[{"label":"x^2","coeff":1}]}, {"a":"x","b":"x^2","result":[{"label":"x^3","coeff":1}]},
   {"a":"x","b":"x^3","result":[{"label":"x^4","coeff":1}]}, {"a":"x","b":"x^4","result":[{"label":"x^5","coeff":1}]},
   {"a":"x","b":"x^5","result":[{"label":"x^6","coeff":1}]}, {"a":"x","b":"x^6","result":[{"label":"x^7","coeff":1}]},
   {"a":"x","b":"x^7","result":[{"label":"x^8","coeff":1}]}, {"a":"x","b":"x^8","result":[{"label":"x^9","coeff":1}]},
   {"a":"x","b":"x^9","result":[{"label":"x^10","coeff":1}]}, {"a":"x","b":"x^10","result":[{"label":"x^11","coeff":1}]},
   {"a":"x","b":"x^11","result":[{"label":"x^12","coeff":1}]},
   {"a":"x","b":"x^12","result":[{"label":"x^13","coeff":1}]},
   {"a":"x","b":"x^13","result":[{"label":"x^14","coeff":1}]},
   {"a":"x","b":"x^14","result":[{"label":"x^15","coeff":1}]},
   {"a":"x","b":"x^15","result":[{"label":"x^16","coeff":1}]},
   {"a":"x","b":"x^16","result":[{"label":"x^17","coeff":1}]},
   {"a":"x","b":"x^17","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^2","b":"x^2","result":[{"label":"x^4","coeff":1}]},
   {"a":"x^2","b":"x^3","result":[{"label":"x^5","coeff":1}]},
   {"a":"x^2","b":"x^4","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^2","b":"x^5","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^2","b":"x^6","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^2","b":"x^7","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^2","b":"x^8","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^2","b":"x^9","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^2","b":"x^10","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^2","b":"x^11","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^2","b":"x^12","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^2","b":"x^13","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^2","b":"x^14","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^2","b":"x^15","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^2","b":"x^16","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^3","b":"x^3","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^3","b":"x^4","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^3","b":"x^5","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^3","b":"x^6","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^3","b":"x^7","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^3","b":"x^8","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^3","b":"x^9","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^3","b":"x^10","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^3","b":"x^11","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^3","b":"x^12","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^3","b":"x^13","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^3","b":"x^14","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^3","b":"x^15","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^4","b":"x^4","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^4","b":"x^5","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^4","b":"x^6","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^4","b":"x^7","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^4","b":"x^8","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^4","b":"x^9","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^4","b":"x^10","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^4","b":"x^11","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^4","b":"x^12","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^4","b":"x^13","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^4","b":"x^14","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^5","b":"x^5","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^5","b":"x^6","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^5","b":"x^7","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^5","b":"x^8","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^5","b":"x^9","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^5","b":"x^10","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^5","b":"x^11","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^5","b":"x^12","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^5","b":"x^13","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^6","b":"x^6","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^6","b":"x^7","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^6","b":"x^8","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^6","b":"x^9","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^6","b":"x^10","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^6","b":"x^11","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^6","b":"x^12","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^7","b":"x^7","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^7","b":"x^8","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^7","b":"x^9","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^7","b":"x^10","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^7","b":"x^11","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^8","b":"x^8","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^8","b":"x^9","result":[{"label":"x^17","coeff":1}]},
   {"a":"x^8","b":"x^10","result":[{"label":"x^18","coeff":1}]},
   {"a":"x^9","b":"x^9","result":[{"label":"x^18","coeff":1}]}]},
  "bundle": {"totalPositive": [{"label":"1","coeff":1}, {"label":"x","coeff":1}, {"label":"x^2","coeff":1}, {"label":"x^3","coeff":-1}],
   "totalNegativePulled": [{"label":"1","coeff":1}, {"label":"x","coeff":-1}]}},
 {"ring": {"mode": "integer_mod_torsion", "topDim": 128, "fundamental": "x^16", "basis": [
   {"label":"1","degree":0}, {"label":"x","degree":8}, {"label":"x^2","degree":16}, {"label":"x^3","degree":24},
   {"label":"x^4","degree":32}, {"label":"x^5","degree":40}, {"label":"x^6","degree":48}, {"label":"x^7","degree":56},
   {"label":"x^8","degree":64}, {"label":"x^9","degree":72}, {"label":"x^10","degree":80}, {"label":"x^11","degree":88},
   {"label":"x^12","degree":96}, {"label":"x^13","degree":104}, {"label":"x^14","degree":112},
   {"label":"x^15","degree":120}, {"label":"x^16","degree":128}],
  "products": [
   {"a":"x","b":"x","result":[{"label":"x^2","coeff":1}]}, {"a":"x","b":"x^2","result":[{"label":"x^3","coeff":1}]},
   {"a":"x","b":"x^3","result":[{"label":"x^4","coeff":1}]}, {"a":"x","b":"x^4","result":[{"label":"x^5","coeff":1}]},
   {"a":"x","b":"x^5","result":[{"label":"x^6","coeff":1}]}, {"a":"x","b":"x^6","result":[{"label":"x^7","coeff":1}]},
   {"a":"x","b":"x^7","result":[{"label":"x^8","coeff":1}]}, {"a":"x","b":"x^8","result":[{"label":"x^9","coeff":1}]},
   {"a":"x","b":"x^9","result":[{"label":"x^10","coeff":1}]}, {"a":"x","b":"x^10","result":[{"label":"x^11","coeff":1}]},
   {"a":"x","b":"x^11","result":[{"label":"x^12","coeff":1}]},
   {"a":"x","b":"x^12","result":[{"label":"x^13","coeff":1}]},
   {"a":"x","b":"x^13","result":[{"label":"x^14","coeff":1}]},
   {"a":"x","b":"x^14","result":[{"label":"x^15","coeff":1}]},
   {"a":"x","b":"x^15","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^2","b":"x^2","result":[{"label":"x^4","coeff":1}]},
   {"a":"x^2","b":"x^3","result":[{"label":"x^5","coeff":1}]},
   {"a":"x^2","b":"x^4","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^2","b":"x^5","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^2","b":"x^6","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^2","b":"x^7","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^2","b":"x^8","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^2","b":"x^9","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^2","b":"x^10","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^2","b":"x^11","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^2","b":"x^12","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^2","b":"x^13","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^2","b":"x^14","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^3","b":"x^3","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^3","b":"x^4","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^3","b":"x^5","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^3","b":"x^6","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^3","b":"x^7","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^3","b":"x^8","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^3","b":"x^9","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^3","b":"x^10","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^3","b":"x^11","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^3","b":"x^12","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^3","b":"x^13","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^4","b":"x^4","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^4","b":"x^5","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^4","b":"x^6","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^4","b":"x^7","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^4","b":"x^8","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^4","b":"x^9","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^4","b":"x^10","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^4","b":"x^11","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^4","b":"x^12","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^5","b":"x^5","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^5","b":"x^6","result":[{"label":"x^11","coeff":1}]},
   {"a":"x^5","b":"x^7","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^5","b":"x^8","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^5","b":"x^9","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^5","b":"x^10","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^5","b":"x^11","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^6","b":"x^6","result":[{"label":"x^12","coeff":1}]},
   {"a":"x^6","b":"x^7","result":[{"label":"x^13","coeff":1}]},
   {"a":"x^6","b":"x^8","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^6","b":"x^9","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^6","b":"x^10","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^7","b":"x^7","result":[{"label":"x^14","coeff":1}]},
   {"a":"x^7","b":"x^8","result":[{"label":"x^15","coeff":1}]},
   {"a":"x^7","b":"x^9","result":[{"label":"x^16","coeff":1}]},
   {"a":"x^8","b":"x^8","result":[{"label":"x^16","coeff":1}]}]},
  "bundle": {"totalPositive": [{"label":"1","coeff":1}, {"label":"x","coeff":1}, {"label":"x^2","coeff":1}, {"label":"x^3","coeff":-1}],
   "totalNegativePulled": [{"label":"1","coeff":1}, {"label":"x","coeff":-1}]}},
 {"ring": {"mode": "integer_mod_torsion", "topDim": 200, "fundamental": "x^10", "basis": [
   {"label":"1","degree":0}, {"label":"x","degree":20}, {"label":"x^2","degree":40}, {"label":"x^3","degree":60},
   {"label":"x^4","degree":80}, {"label":"x^5","degree":100}, {"label":"x^6","degree":120}, {"label":"x^7","degree":140},
   {"label":"x^8","degree":160}, {"label":"x^9","degree":180}, {"label":"x^10","degree":200}],
  "products": [
   {"a":"x","b":"x","result":[{"label":"x^2","coeff":1}]}, {"a":"x","b":"x^2","result":[{"label":"x^3","coeff":1}]},
   {"a":"x","b":"x^3","result":[{"label":"x^4","coeff":1}]}, {"a":"x","b":"x^4","result":[{"label":"x^5","coeff":1}]},
   {"a":"x","b":"x^5","result":[{"label":"x^6","coeff":1}]}, {"a":"x","b":"x^6","result":[{"label":"x^7","coeff":1}]},
   {"a":"x","b":"x^7","result":[{"label":"x^8","coeff":1}]}, {"a":"x","b":"x^8","result":[{"label":"x^9","coeff":1}]},
   {"a":"x","b":"x^9","result":[{"label":"x^10","coeff":1}]}, {"a":"x^2","b":"x^2","result":[{"label":"x^4","coeff":1}]},
   {"a":"x^2","b":"x^3","result":[{"label":"x^5","coeff":1}]},
   {"a":"x^2","b":"x^4","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^2","b":"x^5","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^2","b":"x^6","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^2","b":"x^7","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^2","b":"x^8","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^3","b":"x^3","result":[{"label":"x^6","coeff":1}]},
   {"a":"x^3","b":"x^4","result":[{"label":"x^7","coeff":1}]},
   {"a":"x^3","b":"x^5","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^3","b":"x^6","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^3","b":"x^7","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^4","b":"x^4","result":[{"label":"x^8","coeff":1}]},
   {"a":"x^4","b":"x^5","result":[{"label":"x^9","coeff":1}]},
   {"a":"x^4","b":"x^6","result":[{"label":"x^10","coeff":1}]},
   {"a":"x^5","b":"x^5","result":[{"label":"x^10","coeff":1}]}]},
  "bundle": {"totalPositive": [{"label":"1","coeff":1}, {"label":"x","coeff":1}, {"label":"x^2","coeff":1}, {"label":"x^3","coeff":-1}],
   "totalNegativePulled": [{"label":"1","coeff":1}, {"label":"x","coeff":-1}]}}]}
"""


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
            files = {file_name: json.dumps(document) for file_name, document in workload.files.items()}
            replay(env, seed, name, files, [command.argv for command in workload.commands])
    replay(env, "static", "filtration-depth3", {"run.json": DEPTH3_RUN}, [["filtration", "run", "--spec", "@run.json"]])
    return 0


def replay(env: dict, seed, name: str, files: dict[str, str], commands: list[list[str]]) -> None:
    """Write ``files`` to a temporary directory and print one line per
    command; an argument ``@NAME`` names the file ``NAME``."""
    with tempfile.TemporaryDirectory(prefix=f"replay-{name}-") as tmp:
        inputs = Path(tmp)
        for file_name, text in files.items():
            (inputs / file_name).write_text(text, encoding="utf-8")
        for index, argv in enumerate(commands):
            args = [str(inputs / a[1:]) if a.startswith("@") else a for a in argv]
            done = subprocess.run([sys.executable, "-m", "jetstrata.cli", *args], env=env, capture_output=True)
            print(seed, name, index, done.returncode, digest(done.stdout), digest(done.stderr))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
