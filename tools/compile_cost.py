"""Print what compiling each module of a source directory costs.

    python3 tools/compile_cost.py [DIR]

DIR defaults to ``src/jetstrata``.  For each ``*.py`` file in DIR, in name
order, one line gives its name, the best of ``REPEAT`` ``compile()`` times
in milliseconds and the node count of its syntax tree; a
last line gives the totals.  A command run without a bytecode cache, as the
benchmark runs every command, pays the compile time of each module it
imports, so these figures price the lines a change adds to or moves out of a
module.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "jetstrata"
REPEAT = 31


def best_compile_ms(source: bytes, filename: str, repeat: int) -> float:
    """The least of ``repeat`` wall-clock times of ``compile(source)``, in ms."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        compile(source, filename, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=DEFAULT)
    args = parser.parse_args(argv)
    total_ms = total_nodes = 0
    for path in sorted(args.directory.glob("*.py")):
        source = path.read_bytes()
        ms = best_compile_ms(source, str(path), REPEAT)
        nodes = sum(1 for _ in ast.walk(ast.parse(source, str(path))))
        total_ms += ms
        total_nodes += nodes
        print(f"{path.name:<20} {ms:8.2f} ms {nodes:8d} nodes")
    print(f"{'total':<20} {total_ms:8.2f} ms {total_nodes:8d} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
